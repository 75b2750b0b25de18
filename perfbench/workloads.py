"""Benchmark workloads and the one operation each repeats.

Every operation is an in-process call to ``mwwdr.cli.main([...])``, the path
users take. A workload is a closed loop with one caller: the next operation
starts when the previous one returns.
"""

import contextlib
import io
import os
import time
from dataclasses import dataclass
from typing import Optional

W_COLS = ("age", "bmi", "chol", "health")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                  # "estimate" or "simulate"
    n: int
    reps: int = 1                 # replications per scenario (simulate)
    preset: Optional[str] = None  # simulate preset bundle
    probe_reps: int = 1           # replications per scenario the traced run probes

    def input_path(self, out_dir):
        return os.path.join(out_dir, f"{self.name}.csv")

    def argv(self, out_dir, seed, output, threads=2):
        if self.command == "estimate":
            return ["estimate", "--input", self.input_path(out_dir),
                    "--z-col", "z", "--y-col", "y", "--w-cols", ",".join(W_COLS),
                    "--estimator", "all", "--format", "json", "--output", output]
        return ["simulate", "--preset", self.preset, "--n", str(self.n),
                "--reps", str(self.reps), "--seed", str(seed),
                "--threads", str(threads),
                "--format", "json", "--output", output]

    def make_inputs(self, out_dir, seed):
        """Write the operation's input file; returns the generated dataset
        (None for simulate, which generates its own data from --seed)."""
        if self.command != "estimate":
            return None
        from mwwdr.simstudy import synthetic_confounded_trial, write_dataset_csv

        ds = synthetic_confounded_trial(n=self.n, seed=seed)
        write_dataset_csv(ds, self.input_path(out_dir), W_COLS)
        return ds

    def scenarios(self, seed):
        """(name, ScenarioConfig) pairs the simulate call runs, in order."""
        from mwwdr.simstudy import PRESETS

        return PRESETS[self.preset](self.n, self.reps, seed)

    def reps_per_call(self):
        return 1 if self.command == "estimate" else self.reps * len(self.scenarios(0))


# Sizes: "full" is what the benchmark measures; its replication counts keep
# each simulate call several seconds long, so a 30 s run holds 4 to 7 calls.
# "smoke" keeps the same layers and switches at sizes that finish in
# seconds, for the self-test.
SIZES = {
    "full": (
        Workload("estimate_n2000", "estimate", n=2000),
        Workload("sim_power_n50", "simulate", n=50, reps=200, preset="table5",
                 probe_reps=32),
        Workload("sim_misspec_n400", "simulate", n=400, reps=40, preset="table3",
                 probe_reps=4),
    ),
    "smoke": (
        Workload("estimate_n2000", "estimate", n=200),
        Workload("sim_power_n50", "simulate", n=50, reps=8, preset="table5",
                 probe_reps=2),
        Workload("sim_misspec_n400", "simulate", n=100, reps=4, preset="table3",
                 probe_reps=1),
    ),
}
NAMES = tuple(w.name for w in SIZES["full"])


def get(name, size="full"):
    return next(w for w in SIZES[size] if w.name == name)


@dataclass
class OpResult:
    seconds: float
    rc: int
    stderr: str
    report: Optional[bytes]   # the report bytes, None when the call failed


def run_op(argv, output):
    """One timed ``mwwdr.cli.main`` call; the report is read back after the
    clock stops."""
    from mwwdr import cli

    if os.path.exists(output):
        os.remove(output)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # an escaped exception is a failed operation
            rc = -1
            print(f"error (uncaught): {type(exc).__name__}: {exc}", file=err)
        seconds = time.perf_counter() - t0
    report = None
    if rc == 0:
        with open(output, "rb") as fh:
            report = fh.read()
    return OpResult(seconds, rc, err.getvalue(), report)
