"""Print one `name sha256` line per report of a fixed set of CLI runs.

Run it on two checkouts and diff the outputs: equal lines mean the two
trees write the same report bytes on these inputs.

    PYTHONPATH=src python tools/bytecheck.py > after.txt

The inputs are written to a temporary directory, which is the working
directory while the commands run, so that the input path each estimate
report records is the same bare file name in every run; nothing is left
behind.
"""

import hashlib
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


def _run(args):
    code = main([str(a) for a in args] + ["--output", "report.json"])
    if code != 0:
        raise SystemExit(f"{args}: exit {code}")
    return hashlib.sha256(Path("report.json").read_bytes()).hexdigest()


def check():
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for label, source, w_cols, flags in ESTIMATES:
                args = ["estimate", "--input", _write_input(source, w_cols),
                        "--z-col", "z", "--y-col", "y", *flags]
                if w_cols:
                    args += ["--w-cols", w_cols]
                print(label, _run(args), flush=True)
            for label, preset, n, reps, threads in SIMULATES:
                print(label, _run(["simulate", "--preset", preset, "--n", n,
                                   "--reps", reps, "--seed", 7,
                                   "--threads", threads]), flush=True)
        finally:
            os.chdir(home)


if __name__ == "__main__":
    check()
