"""Time repeated fits in one fresh process, with their page faults.

Fits synthetic_confounded_trial(n=N, seed=S) K times in this process,
through solve_families (every family, default FrmSpec) or, with --cli,
through cli.main estimate --estimator all on a CSV of the same data, and
prints each fit's wall time, minor page faults and system time, then their
medians over the fits after the first (the first pays for imports, code
warm-up and fresh heap pages).

    PYTHONPATH=src python tools/faults.py --n 1000 --fits 5
    PYTHONPATH=src python tools/faults.py --n 2000 --cli

Faults and system time come from resource.getrusage and cover every
thread of the process. The --cli input and report go to a temporary
directory, which is removed; nothing else is written.
"""

import argparse
import os
import resource
import statistics
import tempfile
import time

from mwwdr import cli
from mwwdr.simstudy import synthetic_confounded_trial, write_dataset_csv
from mwwdr.ugee import FrmSpec, solve_families


def _fit_once(ds, csv):
    if csv is None:
        list(solve_families(ds, FrmSpec()))
        return
    out = os.path.join(os.path.dirname(csv), "report.json")
    code = cli.main(["estimate", "--input", csv, "--z-col", "z", "--y-col", "y",
                     "--w-cols", "w1,w2,w3,w4", "--estimator", "all",
                     "--output", out])
    if code != 0:
        raise SystemExit(f"estimate exited {code}")


def measure(n, seed, fits, use_cli):
    """[(wall s, minor faults, system s)] of each of fits fits."""
    ds = synthetic_confounded_trial(n=n, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        csv = None
        if use_cli:
            csv = os.path.join(tmp, "trial.csv")
            write_dataset_csv(ds, csv)
        rows = []
        for _ in range(fits):
            before = resource.getrusage(resource.RUSAGE_SELF)
            start = time.perf_counter()
            _fit_once(ds, csv)
            wall = time.perf_counter() - start
            after = resource.getrusage(resource.RUSAGE_SELF)
            rows.append((wall, after.ru_minflt - before.ru_minflt,
                         after.ru_stime - before.ru_stime))
    return rows


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--fits", type=int, default=5)
    parser.add_argument("--cli", action="store_true",
                        help="fit through cli.main estimate --estimator all")
    opts = parser.parse_args()
    if opts.fits < 2:
        parser.error("--fits must be at least 2")
    rows = measure(opts.n, opts.seed, opts.fits, opts.cli)
    for k, (wall, faults, system) in enumerate(rows, 1):
        print(f"fit {k}: wall {wall:.3f} s, minor faults {faults}, "
              f"system {system:.3f} s")
    wall, faults, system = (statistics.median(col) for col in zip(*rows[1:]))
    print(f"n={opts.n} seed={opts.seed} via={'cli' if opts.cli else 'solve_families'} "
          f"fits 2-{opts.fits} median: wall {wall:.3f} s, minor faults "
          f"{faults:g}, system {system:.3f} s")
