"""Print one `name sha256` line per report of a fixed set of CLI runs.

Run it on two checkouts and diff the outputs: equal lines mean the two
trees write the same report bytes on these inputs.

    PYTHONPATH=src python tools/bytecheck.py > after.txt

--keep DIR writes each report to DIR/<name>.json. --against DIR adds, to
each line, the largest difference of the report's numbers from the report
of that name in DIR, in the benchmark gate's form (relative, or absolute
below 1), with the JSON path where it is (`structure` in place of the
difference where the two reports differ in anything but numbers); then the
same outside the fits' `diagnostics`, which the gate does not compare. So
a change's moved numbers are listed by

    PYTHONPATH=src python tools/bytecheck.py --keep /tmp/before   # parent
    PYTHONPATH=src python tools/bytecheck.py --against /tmp/before

The inputs are written to a temporary directory, which is the working
directory while the commands run, so that the input path each estimate
report records is the same bare file name in every run; nothing is left
behind.
"""

import argparse
import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path

from mwwdr.cli import main
from mwwdr.data import Dataset
from mwwdr.simstudy import synthetic_confounded_trial, write_dataset_csv

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "confounded_rct.csv"
SYNTHETIC_W = "w1,w2,w3,w4"
FIXTURE_W = "age,bmi,chol,health"

# (name, dataset (n, seed) or None for the fixture, covariates, flags)
ESTIMATES = [
    ("estimate_n2000_s7", (2000, 7), SYNTHETIC_W, ["--estimator", "all"]),
    ("estimate_n700_s3_logit_ties", (700, 3), SYNTHETIC_W,
     ["--hajek", "--link", "logit", "--ties", "on"]),
    ("estimate_n600_s11_clip", (600, 11), SYNTHETIC_W,
     ["--clip-eps", "0.05", "--hajek"]),
    ("estimate_fixture", None, FIXTURE_W, ["--hajek"]),
    ("estimate_fixture_clip", None, FIXTURE_W, ["--hajek", "--clip-eps", "0.2"]),
    ("estimate_n300_s5_p0_probit", (300, 5), "", ["--link", "probit"]),
    ("estimate_n300_s5_p0_logit", (300, 5), "", ["--link", "logit"]),
]

# (name, preset, n, reps, threads), each at --seed 7
SIMULATES = [
    ("simulate_table3_n100", "table3", 100, 20, 2),
    ("simulate_table3_n400", "table3", 400, 40, 2),
    ("simulate_table5_n50", "table5", 50, 20, 2),
    ("simulate_table2_n60", "table2", 60, 20, 1),
]


def _write_input(source, w_cols):
    """The file name, in the working directory, of an estimate's input."""
    if source is None:
        shutil.copyfile(FIXTURE, FIXTURE.name)
        return FIXTURE.name
    n, seed = source
    ds = synthetic_confounded_trial(n=n, seed=seed)
    if not w_cols:
        ds = Dataset(ds.z, ds.y, outcome_kind=ds.outcome_kind)
    name = f"synthetic_n{n}_s{seed}_p{ds.p}.csv"
    write_dataset_csv(ds, name)
    return name


def largest_difference(a, b, path="", skip=()):
    """(difference, path) of the number of a and b that differ most in the
    gate's form, |a - b| / max(1, |a|, |b|); (inf, path) at the first place
    where they differ in anything but a number. Keys in skip are not
    visited."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        parts = [largest_difference(a[k], b[k], f"{path}.{k}", skip)
                 for k in a if k not in skip]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        parts = [largest_difference(x, y, f"{path}[{k}]", skip)
                 for k, (x, y) in enumerate(zip(a, b))]
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool)
             for v in (a, b)):
        return abs(a - b) / max(1.0, abs(a), abs(b)), path
    else:
        return (0.0 if a == b else float("inf")), path
    return max(parts, default=(0.0, path), key=lambda part: part[0])


def _run(label, args, keep, against):
    code = main([str(a) for a in args] + ["--output", "report.json"])
    if code != 0:
        raise SystemExit(f"{args}: exit {code}")
    report = Path("report.json").read_bytes()
    line = [label, hashlib.sha256(report).hexdigest()]
    if keep:
        (keep / f"{label}.json").write_bytes(report)
    if against:
        saved = json.loads((against / f"{label}.json").read_bytes())
        for skip in ((), ("diagnostics",)):
            diff, path = largest_difference(saved, json.loads(report), skip=skip)
            line += [f"{diff:.2e}" if diff < float("inf") else "structure",
                     path if diff else "-"]
    print(*line, flush=True)


def check(keep=None, against=None):
    home = os.getcwd()
    keep, against = (Path(d).resolve() if d else None for d in (keep, against))
    if keep:
        keep.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for label, source, w_cols, flags in ESTIMATES:
                args = ["estimate", "--input", _write_input(source, w_cols),
                        "--z-col", "z", "--y-col", "y", *flags]
                if w_cols:
                    args += ["--w-cols", w_cols]
                _run(label, args, keep, against)
            for label, preset, n, reps, threads in SIMULATES:
                _run(label, ["simulate", "--preset", preset, "--n", n,
                             "--reps", reps, "--seed", 7, "--threads", threads],
                     keep, against)
        finally:
            os.chdir(home)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", metavar="DIR",
                        help="write each report to DIR/<name>.json")
    parser.add_argument("--against", metavar="DIR",
                        help="add each report's largest difference from "
                             "DIR/<name>.json")
    opts = parser.parse_args()
    check(opts.keep, opts.against)
