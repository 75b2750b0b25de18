from pathlib import Path

import numpy as np
import pytest

from mwwdr import data
from mwwdr.data import CsvSchema, Dataset, load_csv
from mwwdr.errors import EstimabilityError, IngestionError, ValidationError
from mwwdr.estimators import mww_estimate
from mwwdr.simstudy import synthetic_confounded_trial, write_dataset_csv

from csv_rows import row_loop_load_csv


def write(tmp_path, text, name="d.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_four_row_parse(self, tmp_path):
        path = write(tmp_path, "z,y\n1,1\n1,3\n0,2\n0,4\n")
        ds = load_csv(path, CsvSchema("z", "y"))
        assert (ds.n, ds.n1, ds.n0, ds.p) == (4, 2, 2, 0)
        assert list(ds.y) == [1.0, 3.0, 2.0, 4.0]

    def test_nonbinary_z_names_row(self, tmp_path):
        path = write(tmp_path, "z,y\n1,1\n0,2\n2,3\n0,4\n")
        with pytest.raises(IngestionError, match="row 3"):
            load_csv(path, CsvSchema("z", "y"))

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "z,y\n1,1\n0,2\n")
        with pytest.raises(IngestionError, match="w1"):
            load_csv(path, CsvSchema("z", "y", ("w1",)))

    def test_non_numeric_outcome(self, tmp_path):
        path = write(tmp_path, "z,y\n1,1\n0,abc\n")
        with pytest.raises(IngestionError, match="row 2"):
            load_csv(path, CsvSchema("z", "y"))

    def test_listwise_rejection_of_missing_values(self, tmp_path):
        path = write(tmp_path, "z,y,w\n1,1,0.5\n0,,0.2\n0,2,\n1,3,1.0\n0,4,0.1\n")
        ds = load_csv(path, CsvSchema("z", "y", ("w",)))
        assert ds.n == 3
        assert ds.n_rejected_rows == 2

    def test_too_few_rows(self, tmp_path):
        path = write(tmp_path, "z,y\n1,1\n")
        with pytest.raises(IngestionError, match="2"):
            load_csv(path, CsvSchema("z", "y"))

    def test_survey_shaped_fixture_roundtrip(self, tmp_path):
        ds = synthetic_confounded_trial()
        path = tmp_path / "trial.csv"
        write_dataset_csv(ds, path, ["age", "bmi", "chol", "health"])
        back = load_csv(str(path), CsvSchema("z", "y", ("age", "bmi", "chol", "health")))
        assert back.n == 333 and back.p == 4
        assert np.allclose(back.y, ds.y)
        assert np.array_equal(back.z, ds.z)


def _outcome(load, path, schema):
    try:
        ds = load(path, schema)
    except IngestionError as exc:
        return "error", str(exc), exc.row
    return ("dataset", ds.z.tobytes(), ds.y.tobytes(), ds.w.tobytes(), ds.w.shape,
            ds.w.flags.c_contiguous, ds.ids, ds.n_rejected_rows)


class TestBulkIngestion:
    """load_csv converts each column of a chunk of rows at once; the
    row-by-row loader it replaced (tests/csv_rows.py) gives the same
    dataset bytes or the same error."""

    # a blank line, an empty required value, padded numbers, a short row,
    # an extra field and a second "w" column, the one that is read
    MESSY = ("id,z,y,w,note,w\n"
             "a, 1 , 1.5 ,9,x,0.25\n"
             "\n"
             "b,0,,9,x,1\n"
             "c,0,\t2e-3,9,x, -1_0.5 \n"
             "\n\n"
             "d,1,3,9\n"
             "e,1,4,9,x,7,extra,fields\n"
             "f,0,nan_is_not_here,9,x,\n"
             "g,0,-0,9,x,1e-400\n")

    @pytest.mark.parametrize("text, w_cols", [
        (MESSY, ("w",)),
        (MESSY, ()),
        ("z,y\n1,1\n\n0,2\n", ()),
        ("y,z,u\n3,1,1\n2,0,\n1,0,2\n4,1,3\n", ("u",)),
        ("z,y,w\n1,1,1\n0,zz,1\n3,1,1\n", ("w",)),       # bad y before bad z
        ("z,y,w\n1,1,1\n7,1,1\n0,zz,1\n", ("w",)),       # bad z before bad y
        ("z,y,w\n1,1,1\n\n0,2, 1,5\n", ("w",)),          # bad w after a blank line
        ("z,y,w\n1,1,1\n0,2,0x10\n", ("w",)),
        ("z,y\n2,1\n", ()),                                # an error before the row count
        ("z,y\n1,1\n", ()),
        ("z,y\n", ()),
        ("\nz,y\n1,1\n0,2\n", ()),
        ("", ()),
    ])
    @pytest.mark.parametrize("chunk", [1, 3, data._CSV_CHUNK])
    def test_matches_the_row_loop(self, tmp_path, monkeypatch, text, w_cols, chunk):
        # chunks of 1 and 3 rows put rejected rows, bad rows and blank
        # lines on either side of a chunk's end
        monkeypatch.setattr(data, "_CSV_CHUNK", chunk)
        path = write(tmp_path, text)
        schema = CsvSchema("z", "y", w_cols)
        assert _outcome(load_csv, path, schema) == _outcome(row_loop_load_csv, path, schema)

    def test_messy_rows_read_as_dictreader_reads_them(self, tmp_path):
        ds = load_csv(write(tmp_path, self.MESSY), CsvSchema("z", "y", ("w",)))
        assert ds.ids == ("a", "c", "e", "g")
        assert ds.n_rejected_rows == 3
        assert list(ds.z) == [1, 0, 1, 0]
        assert list(ds.y) == [1.5, 2e-3, 4.0, 0.0]
        assert list(ds.w[:, 0]) == [0.25, -10.5, 7.0, 0.0]

    def test_fixture_matches_the_row_loop(self):
        path = Path(__file__).parent / "fixtures" / "confounded_rct.csv"
        schema = CsvSchema("z", "y", ("age", "bmi", "chol", "health"))
        assert _outcome(load_csv, path, schema) == _outcome(row_loop_load_csv, path, schema)

    @pytest.mark.parametrize("name, w_cols", [
        ("confounded_rct.csv", ("age", "bmi", "chol", "health")),
        ("four_row.csv", ())])
    def test_byte_order_mark(self, tmp_path, name, w_cols):
        # a CSV saved with a byte-order mark (Excel's "CSV UTF-8") reads as
        # the same file without it: its first header is "id" or "z"
        path = Path(__file__).parent / "fixtures" / name
        marked = tmp_path / name
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        schema = CsvSchema("z", "y", w_cols)
        assert _outcome(load_csv, marked, schema) == _outcome(load_csv, path, schema)


class TestDataset:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Dataset([1], [1.0])
        with pytest.raises(ValidationError):
            Dataset([1, 2], [1.0, 2.0])
        with pytest.raises(ValidationError):
            Dataset([1, 0], [np.nan, 1.0])
        with pytest.raises(ValidationError):
            Dataset([1, 0], [1.0, 2.0], outcome_kind="weird")

    def test_immutability(self, four_row_dataset):
        with pytest.raises(ValueError):
            four_row_dataset.y[0] = 9.9

    def test_single_arm_estimability_guard(self):
        ds = Dataset([1, 1, 1], [1.0, 2.0, 3.0])
        with pytest.raises(EstimabilityError):
            ds.require_both_arms()

    def test_count_kind_forces_ties(self):
        ds = Dataset([1, 0], [1, 2], outcome_kind="count")
        assert ds.ties is True


def tiled_pairs(ds):
    """The unordered pairs and the treated x control pairs that the pair
    tiles of ds cover, as (i, j) positions of its subjects held treated
    first, i < j."""
    pairs, tc = [], []
    for I, J, rows, cols in data.pair_tiles(ds.n, ds.n1):
        pairs += [(i, j) for i in range(I.start, I.stop)
                  for j in range(J.start, J.stop) if i < j]
        tc += [(i, j) for i in range(rows.start, rows.stop)
               for j in range(cols.start, cols.stop)]
    return pairs, tc


class TestPairs:
    def test_pair_counts(self, four_row_dataset):
        pairs, tc = tiled_pairs(four_row_dataset)
        assert len(pairs) == 6
        assert len(tc) == 4

    def test_large_pair_count(self):
        rng = np.random.default_rng(0)
        z = np.r_[np.ones(25), np.zeros(25)].astype(int)
        ds = Dataset(z, rng.normal(size=50))
        pairs, tc = tiled_pairs(ds)
        assert len(pairs) == 1225
        assert len(tc) == 625

    def test_each_pair_once_and_partition(self, monkeypatch):
        # 4-subject blocks: partial tiles, one holding both arms
        monkeypatch.setattr(data, "_tile_size", lambda n: 4)
        rng = np.random.default_rng(1)
        z = (rng.random(9) < 0.5).astype(int)
        z[0], z[1] = 1, 0
        ds = Dataset(z, rng.normal(size=9))
        pairs, tc = tiled_pairs(ds)
        assert len(set(pairs)) == len(pairs) == 36
        assert all(i < j for i, j in pairs)
        disc = set(tc)
        assert len(disc) == len(tc) and disc <= set(pairs)
        held = np.sort(ds.z)[::-1]  # treated first
        n_conc = sum(1 for i, j in pairs if held[i] == held[j])
        assert len(disc) + n_conc == 36


def outcomes(rng, n, kind):
    """n outcomes: continuous, or counts with heavy ties (five values)."""
    if kind == "count":
        return rng.integers(0, 5, n).astype(float)
    return rng.normal(0.0, 1.0, n)


class TestKernelSums:
    """data.OutcomeSort's kernel sums, from one sort, against the dense
    kernel matrix."""

    @pytest.mark.parametrize("kind", ["continuous", "count"])
    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("n1, n0", [(1, 1), (3, 8), (350, 300), (420, 700)])
    def test_matches_dense_kernel(self, n1, n0, ties, kind):
        rng = np.random.default_rng(n1 + 7 * n0 + ties)
        y1, y0 = outcomes(rng, n1, kind), outcomes(rng, n0, kind)
        K = data.outcome_kernel(y1, y0, ties).astype(float)
        # unweighted sums are multiples of 1/2: exact
        got = data.OutcomeSort(y1, y0, ties).sums()
        assert got.tobytes() == K.sum(axis=1).tobytes()
        weights0 = rng.uniform(1.0, 50.0, n0)
        got = data.OutcomeSort(y1, y0, ties).sums(weights0)
        want = K @ weights0
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    def test_outcomes_outside_and_on_the_controls(self):
        y0 = np.array([2.0, 1.0, 2.0, 3.0])
        y1 = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        assert data.OutcomeSort(y1, y0, False).sums().tolist() == [4, 4, 3, 1, 0]
        assert data.OutcomeSort(y1, y0, True).sums().tolist() == [4, 3.5, 2, 0.5, 0]
        w = np.array([1.0, 10.0, 100.0, 1000.0])
        assert data.OutcomeSort(y1, y0, True).sums(w).tolist() \
            == [1111.0, 1106.0, 1050.5, 500.0, 0.0]

    def test_mww_matches_dense_bit_for_bit(self):
        # n = 1500 count outcomes with heavy ties: the placement values and
        # so delta and its standard error are those of the dense kernel
        rng = np.random.default_rng(12)
        z = (rng.random(1500) < 0.45).astype(int)
        ds = Dataset(z, outcomes(rng, 1500, "count"), outcome_kind="count")
        t, c = data.treated_control(ds)
        K = data.outcome_kernel(ds.y[t], ds.y[c], True)
        n1, n0 = len(t), len(c)
        rows, cols = K.sum(axis=1), K.sum(axis=0)
        delta = float(rows.sum() / (n1 * n0))
        se = float(np.sqrt((rows / n0).var(ddof=1) / n1
                           + (cols / n1).var(ddof=1) / n0))
        est = mww_estimate(ds)
        assert est.delta_hat.hex() == delta.hex()
        assert est.se.hex() == se.hex()
