"""Observed-data containers, pair tiling, and CSV ingestion."""

import csv
import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import EstimabilityError, IngestionError, ValidationError

OUTCOME_KINDS = ("continuous", "count")
# rows converted at a time: one chunk's strings are held, not the file's,
# since the heap that they grow is not given back to the system
_CSV_CHUNK = 256


class Dataset:
    """Immutable column store for n subjects.

    Arrays are set once and frozen; the object is safe to share read-only
    across threads and cheap to pickle to worker processes.
    """

    def __init__(self, z, y, w=None, ids=None, outcome_kind="continuous"):
        z = np.asarray(z)
        y = np.asarray(y, dtype=float)
        n = len(z)
        if n < 2:
            raise ValidationError("a dataset needs at least two subjects")
        if len(y) != n:
            raise ValidationError("z and y lengths differ")
        if w is None:
            w = np.empty((n, 0))
        w = np.asarray(w, dtype=float)
        if w.ndim == 1:
            w = w[:, None]
        if w.shape[0] != n:
            raise ValidationError("covariate row count differs from n")
        if outcome_kind not in OUTCOME_KINDS:
            raise ValidationError(f"outcome_kind must be one of {OUTCOME_KINDS}")
        if not np.all(np.isin(z, (0, 1))):
            raise ValidationError("treatment indicator must be 0/1")
        if not np.all(np.isfinite(y)):
            raise ValidationError("outcomes must be finite")
        if w.size and not np.all(np.isfinite(w)):
            raise ValidationError("covariates must be finite")
        self.z = z.astype(np.int8)
        self.y = y
        self.w = w
        self.ids = tuple(str(i) for i in (ids if ids is not None else range(n)))
        self.outcome_kind = outcome_kind
        self.n_rejected_rows = 0
        for a in (self.z, self.y, self.w):
            a.setflags(write=False)

    @property
    def n(self):
        return len(self.z)

    @property
    def n1(self):
        return int(self.z.sum())

    @property
    def n0(self):
        return self.n - self.n1

    @property
    def p(self):
        return self.w.shape[1]

    @property
    def ties(self):
        """Whether the half-tie kernel applies (forced for count outcomes)."""
        return self.outcome_kind == "count"

    def require_both_arms(self):
        if self.n1 == 0 or self.n0 == 0:
            raise EstimabilityError(
                "dataset has a single treatment arm; no discordant pairs exist")


@dataclass(frozen=True)
class PotentialDataset:
    """Simulation-only container holding both potential outcomes."""

    y1: np.ndarray
    y0: np.ndarray
    z: np.ndarray
    w: np.ndarray
    b: np.ndarray

    def observed(self):
        """The observed data: each subject's outcome under its own arm."""
        return Dataset(self.z, np.where(self.z == 1, self.y1, self.y0), self.w)


def treated_control(dataset):
    """Positions of the treated and of the control subjects."""
    return np.flatnonzero(dataset.z == 1), np.flatnonzero(dataset.z == 0)


def outcome_kernel(y1, y0, ties):
    """The observed pair indicators of the treated outcomes y1 and the
    control outcomes y0: a len(y1) x len(y0) matrix of the kernel
    I(y_t <= y_c), or I(<) + 0.5 I(=) when ties are scored. Every pair term
    that reads the outcomes is weighted by z_i (1 - z_j), so the treated x
    control pairs are all of it. Without ties the matrix is boolean, an
    eighth of the float64 bytes; arithmetic with floats reads it as 0 and 1
    exactly."""
    y1 = y1[:, None]
    y0 = y0[None, :]
    if ties:
        return (y1 < y0) + 0.5 * (y1 == y0)
    return y1 <= y0


class OutcomeSort:
    """One stable sort of each arm's outcomes, for the sums of the kernel
    K = outcome_kernel(y1, y0, ties) of the treated outcomes y1 against the
    control outcomes y0: each side holds one arm's sort order and the
    other arm's positions in it ("left", and "right" under ties), the
    treated's among the controls and, as I(y_t <= y_c) = I(-y_c <= -y_t),
    the negated controls' among the negated treated."""

    def __init__(self, y1, y0, ties):
        self.y1, self.y0, self.ties = y1, y0, ties
        self._sides = [self._side(y0, y1, ties), self._side(-y1, -y0, ties)]

    @staticmethod
    def _side(y, at, ties):
        order = np.argsort(y, kind="stable")
        return order, [np.searchsorted(y[order], at, side)
                       for side in (("left", "right") if ties else ("left",))]

    def sums(self, weights=None, rows=True):
        """K @ weights, each treated subject's sum over the controls (rows),
        or K' @ weights, each control's over the treated, weighted by the
        rows of weights (a vector or a matrix of columns; 1 when None). Each
        sum adds the weights of a suffix of the sorted arm from the top, so
        that no sum is a difference; unweighted sums are exact."""
        order, positions = self._sides[0 if rows else 1]
        # above[k]: the weight of the sorted subjects k, k + 1, ...
        above = np.zeros((len(order) + 1, *np.shape(weights)[1:]))
        if weights is None:
            above[:-1] = 1.0
        else:
            np.take(weights, order, axis=0, out=above[:-1])
        np.cumsum(above[-2::-1], axis=0, out=above[-2::-1])
        if len(positions) == 1:
            return above[positions[0]]
        return 0.5 * (above[positions[0]] + above[positions[1]])


# The most subjects in one block of the pair tiles, at every n. A
# 256 x 256 float64 array is 0.5 MB, and one tile of the three-family pass
# holds about nine at once (traced peak 4.5 MB, of which 2.7 MB are the
# cached K, PT, g and dg/da), so a tile is not cache-resident in a 2 MiB L2.
# 256 keeps the per-tile Python work, which holds the interpreter lock,
# small beside the arithmetic: with 128-subject tiles an n = 2000 estimate
# on two tile threads took 0.56-0.65 s against 0.40-0.46 s with 256.
PAIR_TILE = 256


def _tile_size(n):
    """Subjects per block of the pair tiles of n subjects: at most
    PAIR_TILE, so that one block size serves every n. A function of n
    alone, so that the order of every pair sum, and with it every reported
    number, does not depend on the machine."""
    return min(n, PAIR_TILE)


def pair_tiles(n, n1):
    """The tiles of the ordered pairs of n subjects held treated first (the
    first n1 are treated), in a fixed order: (I, J, rows, cols) for blocks
    I <= J of _tile_size(n) consecutive subjects (fewer in the last). Tile
    (I, J) holds the pairs (i, j), i in I, j in J, and, for I < J, their
    reverses (j, i). rows x cols (subject slices, possibly empty) are its
    treated x control pairs; a reverse (j, i) is never one, since j > i is
    treated only when i is."""
    b = _tile_size(n)
    blocks = [slice(s, min(s + b, n)) for s in range(0, n, b)]
    return [(I, J, slice(I.start, min(I.stop, n1)), slice(max(J.start, n1), J.stop))
            for k, I in enumerate(blocks) for J in blocks[k:]]


@dataclass(frozen=True)
class CsvSchema:
    """Column selection for load_csv."""

    z_col: str
    y_col: str
    w_cols: Sequence[str] = field(default_factory=tuple)


def load_csv(path, schema: CsvSchema, outcome_kind="continuous") -> Dataset:
    """Read a header-first UTF-8 CSV, with a byte-order mark or without,
    into a Dataset.

    Rows with an empty value in any required column are rejected listwise
    (counted on the returned dataset). Malformed values raise IngestionError
    naming the 1-based data row.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise IngestionError(f"cannot open {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise IngestionError("empty file or missing header row")
        needed = [schema.z_col, schema.y_col, *schema.w_cols]
        missing = [c for c in needed if c not in header]
        if missing:
            raise IngestionError(f"missing column(s): {', '.join(missing)}")
        # rows are numbered as csv.DictReader numbers them: blank lines are
        # skipped, and a repeated column name maps to its last column
        column = {name: k for k, name in enumerate(header)}
        cols = [column[c] for c in needed]
        id_col = column.get("id")
        numbered = enumerate(filter(None, reader), start=1)
        parts, ids, rejected = [], [], 0
        while chunk := list(itertools.islice(numbered, _CSV_CHUNK)):
            kept = [(rownum, row) for rownum, row in chunk
                    if all(k < len(row) and row[k].strip() for k in cols)]
            rejected += len(chunk) - len(kept)
            parts.append(_columns(kept, cols, schema.z_col))
            ids += ([str(rownum) for rownum, _ in kept] if id_col is None else
                    [row[id_col] if id_col < len(row) else None for _, row in kept])

    if len(ids) < 2:
        raise IngestionError(f"need at least 2 usable rows, found {len(ids)}")
    z, y, *w = (np.concatenate(col) for col in zip(*parts))
    ds = Dataset(z, y, np.column_stack(w) if w else None,
                 ids=ids, outcome_kind=outcome_kind)
    ds.n_rejected_rows = rejected
    return ds


def _columns(kept, cols, z_col):
    """The treatment column (True where 1) and the float columns of the
    kept (rownum, row) pairs, in the order of cols. Each column is
    converted at once; only when one fails are the rows checked one by one,
    to raise the IngestionError of the first row whose treatment is not 0/1
    or whose outcome or a covariate is not a number, in that order."""
    z = [row[cols[0]].strip() for _, row in kept]
    try:
        values = [np.array([row[k] for _, row in kept], dtype=float)
                  for k in cols[1:]]
    except ValueError:
        values = None
    if values is None or not set(z) <= {"0", "1"}:
        for rownum, row in kept:
            zv = row[cols[0]].strip()
            if zv not in ("0", "1"):
                raise IngestionError(
                    f"treatment column {z_col!r} must be 0/1, got {zv!r}", row=rownum)
            try:
                for k in cols[1:]:
                    float(row[k])
            except ValueError as exc:
                raise IngestionError(f"non-numeric value: {exc}", row=rownum) from None
    return (np.array(z, dtype=str) == "1", *values)
