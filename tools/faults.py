"""Time repeated fits in one fresh process, with their page faults.

Fits synthetic_confounded_trial(n=N, seed=S) K times in this process,
through solve_families (every family, default FrmSpec) or, with --cli,
through cli.main estimate --estimator all on a CSV of the same data, and
prints each fit's wall time, minor page faults and system time, then their
medians over the fits after the first (the first pays for imports, code
warm-up and fresh heap pages).

With --simulate it runs cli.main simulate --preset P --n N --reps R
--seed S --threads 2 K times instead (defaults table5, 50 and 200), and
prints each call's wall time and, after it, the peak resident set of this
process and of its largest waited-for child (ru_maxrss of RUSAGE_SELF and
RUSAGE_CHILDREN, in MB of 10^6 bytes), which shows whether the caller or
a pool worker sets a study's peak.

Each run ends with glibc's malloc_stats(), where the C library has it:
the system and in-use bytes of every malloc arena of this process, on
standard error.

    PYTHONPATH=src python tools/faults.py --n 1000 --fits 5
    PYTHONPATH=src python tools/faults.py --n 2000 --cli
    PYTHONPATH=src python tools/faults.py --simulate --fits 2

Faults and system time come from resource.getrusage and cover every
thread of the process. The --cli input and report and the --simulate
reports go to a temporary directory, which is removed; nothing else is
written.
"""

import argparse
import ctypes
import os
import resource
import statistics
import sys
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


def _peak_mb(who):
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6


def measure_simulate(preset, n, reps, seed, calls):
    """[(wall s, peak MB of this process, peak MB of its children)] after
    each of calls simulate calls."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "study.json")
        rows = []
        for _ in range(calls):
            start = time.perf_counter()
            code = cli.main(["simulate", "--preset", preset, "--n", str(n),
                             "--reps", str(reps), "--seed", str(seed),
                             "--threads", "2", "--output", out])
            wall = time.perf_counter() - start
            if code != 0:
                raise SystemExit(f"simulate exited {code}")
            rows.append((wall, _peak_mb(resource.RUSAGE_SELF),
                         _peak_mb(resource.RUSAGE_CHILDREN)))
    return rows


def print_malloc_stats():
    """glibc's per-arena byte counts on standard error, after this
    process's standard output; nothing without malloc_stats."""
    try:
        stats = ctypes.CDLL(None).malloc_stats
    except (OSError, AttributeError, TypeError):
        return
    stats.restype, stats.argtypes = None, []
    sys.stdout.flush()
    stats()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=None,
                        help="sample size (default 1000, or 50 with --simulate)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--fits", type=int, default=5,
                        help="fits, or simulate calls with --simulate")
    parser.add_argument("--cli", action="store_true",
                        help="fit through cli.main estimate --estimator all")
    parser.add_argument("--simulate", action="store_true",
                        help="time cli.main simulate calls and their peak memory")
    parser.add_argument("--preset", default="table5", choices=sorted(cli.PRESETS),
                        help="simulate preset (with --simulate)")
    parser.add_argument("--reps", type=int, default=200,
                        help="replications per scenario (with --simulate)")
    opts = parser.parse_args()
    if opts.simulate:
        if opts.cli:
            parser.error("--cli and --simulate exclude each other")
        n = 50 if opts.n is None else opts.n
        rows = measure_simulate(opts.preset, n, opts.reps, opts.seed, opts.fits)
        for k, (wall, own, children) in enumerate(rows, 1):
            print(f"call {k}: wall {wall:.3f} s, peak RSS self {own:.2f} MB, "
                  f"children {children:.2f} MB")
        print_malloc_stats()
        raise SystemExit(0)
    if opts.fits < 2:
        parser.error("--fits must be at least 2")
    n = 1000 if opts.n is None else opts.n
    rows = measure(n, opts.seed, opts.fits, opts.cli)
    for k, (wall, faults, system) in enumerate(rows, 1):
        print(f"fit {k}: wall {wall:.3f} s, minor faults {faults}, "
              f"system {system:.3f} s")
    wall, faults, system = (statistics.median(col) for col in zip(*rows[1:]))
    print(f"n={n} seed={opts.seed} via={'cli' if opts.cli else 'solve_families'} "
          f"fits 2-{opts.fits} median: wall {wall:.3f} s, minor faults "
          f"{faults:g}, system {system:.3f} s")
    print_malloc_stats()
