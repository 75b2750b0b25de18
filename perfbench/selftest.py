"""Self-test of the benchmark at smoke sizes; run from the repository root:

    python3 perfbench/selftest.py

For every workload it checks that an untraced and a traced run exit 0, pass
the correctness gate and emit every metric BENCHMARK.json names, with its
unit; that a run at a seed without a stored reference passes; and that the
gate trips, with a non-zero exit, when the stored reference is perturbed. It
also checks the gate's comparison and failure accounting on made-up reports.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import workloads  # noqa: E402


def _run(workload, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--size", "smoke", "--seconds", "1", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc, result


def _expect_metrics(result, specs, where):
    problems = []
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        if got is None:
            problems.append(f"{where}: {spec['name']} missing")
        elif got["unit"] != spec["unit"]:
            problems.append(f"{where}: {spec['name']} in {got['unit']}, not {spec['unit']}")
    extra = set(result["metrics"]) - {s["name"] for s in specs}
    if extra:
        problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def _perturb(path, command):
    """Move one gated number of a stored report by 1e-6 of its size."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    if command == "estimate":
        report["estimates"]["dr"]["se"] *= 1.0 + 1e-6
    else:
        block = next(iter(report.values()))
        block["estimators"]["dr"]["mean"] *= 1.0 + 1e-6
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)


def _check_compare():
    ref = {"a": 0.5, "b": [1.0, True], "c": {"d": 2.0}}
    problems = []
    close = {"a": 0.5 + 1e-12, "b": [1.0, True], "c": {"d": 2.0}, "new": 1}
    far = {"a": 0.5 + 1e-8, "b": [1.0, False], "c": {}}
    got_close, got_far = [], []
    gate.compare(ref, close, "r", got_close)
    gate.compare(ref, far, "r", got_far)
    if got_close:
        problems.append(f"gate.compare rejects a difference below tolerance: {got_close}")
    if len(got_far) != 3:
        problems.append(f"gate.compare missed a difference: {got_far}")
    return problems


def _check_accounting():
    """Failures are counted from exit codes and n_failed, and classified from
    every listed failure string, not only the first."""
    wl = workloads.get("sim_misspec_n400", "smoke")
    per_call = wl.reps_per_call()
    block = {"n_failed": 3, "failures": ["rep 0: ConvergenceError: x",
                                         "rep 2: SeparationError: y"]}
    report = json.dumps({"a": block, "b": dict(block, n_failed=0, failures=[])})
    aborted = "error (convergence): 9 of 40 replications failed; first: rep 5: MwwdrError: z"
    results = [workloads.OpResult(1.0, 0, "", report.encode()),
               workloads.OpResult(1.0, 4, aborted, None)]
    got = gate.account(wl, results)
    want = (2 * per_call, 3 + per_call,
            {"ConvergenceError": 1, "SeparationError": 1, "unlisted": 1,
             "study aborted, first MwwdrError": per_call})
    return [] if got == want else [f"gate.account gave {got}, not {want}"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = _check_compare() + _check_accounting()
    bad_ref = os.path.join(ROOT, "perfbench", "out", "selftest-reference")
    shutil.rmtree(bad_ref, ignore_errors=True)
    shutil.copytree(os.path.join(HERE, "reference"), bad_ref)

    for wl in workloads.SIZES["smoke"]:
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            for seed in ("7", "8"):
                where = f"{wl.name} trace={trace} seed={seed}"
                proc, result = _run(wl.name, "--trace", str(trace), "--seed", seed)
                if proc.returncode != 0 or result is None or not result["correct"]:
                    problems.append(f"{where}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                    continue
                problems += _expect_metrics(result, specs, where)
                print(f"ok  {where}", flush=True)

        _perturb(os.path.join(bad_ref, "smoke", f"{wl.name}.json"), wl.command)
        proc, result = _run(wl.name, "--trace", "0", "--reference-dir", bad_ref)
        tripped = proc.returncode == 1 and result is not None and not result["correct"]
        if not (tripped and "MISMATCH report." in proc.stdout):
            problems.append(f"{wl.name}: the reference gate did not trip on a "
                            f"perturbed reference\n{proc.stdout}{proc.stderr}")
        else:
            print(f"ok  {wl.name} gate trips on a perturbed reference", flush=True)

    shutil.rmtree(bad_ref, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
