"""The row-by-row CSV loader that data.load_csv replaced, kept as the
reference its bulk column conversion is checked against: every row goes
through csv.DictReader and float() one at a time."""

import csv

import numpy as np

from mwwdr.data import Dataset
from mwwdr.errors import IngestionError


def row_loop_load_csv(path, schema, outcome_kind="continuous"):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise IngestionError("empty file or missing header row")
        needed = [schema.z_col, schema.y_col, *schema.w_cols]
        missing = [c for c in needed if c not in reader.fieldnames]
        if missing:
            raise IngestionError(f"missing column(s): {', '.join(missing)}")

        z, y, w, ids, rejected = [], [], [], [], 0
        for rownum, rec in enumerate(reader, start=1):
            vals = [rec.get(c) for c in needed]
            if any(v is None or v.strip() == "" for v in vals):
                rejected += 1
                continue
            zv = vals[0].strip()
            if zv not in ("0", "1"):
                raise IngestionError(
                    f"treatment column {schema.z_col!r} must be 0/1, got {zv!r}",
                    row=rownum)
            try:
                yv = float(vals[1])
                wv = [float(v) for v in vals[2:]]
            except ValueError as exc:
                raise IngestionError(f"non-numeric value: {exc}", row=rownum) from None
            z.append(int(zv))
            y.append(yv)
            w.append(wv)
            ids.append(rec.get("id", str(rownum)))

    if len(z) < 2:
        raise IngestionError(f"need at least 2 usable rows, found {len(z)}")
    ds = Dataset(np.array(z), np.array(y),
                 np.array(w) if schema.w_cols else None,
                 ids=ids, outcome_kind=outcome_kind)
    ds.n_rejected_rows = rejected
    return ds
