"""mwwdr benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload estimate_n2000 --seed 7 --seconds 30 --trace 0

With --trace 0 it repeats the workload's operation (an in-process
``mwwdr.cli.main`` call) in a closed loop for --seconds and reports the
end-to-end metrics; with --trace 1 it makes the traced run of tracing.py and
reports the per-layer metrics. Either way every report passes the
correctness gate of gate.py, and the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code
is 1 when the gate fails and 2 when the program cannot be imported.

The program is imported from ``src/`` of the checkout this file sits in.
"""

import os
import sys
import time

# Each run sees the BLAS library's default thread count: inherited settings
# are dropped before numpy loads, and not replaced, so that BLAS
# oversubscription in pool workers stays visible as program behaviour.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REMOVED_ENV = {k: os.environ.pop(k) for k in BLAS_ENV if k in os.environ}

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 7
SETUP_SAMPLES = 5


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                    help="smoke: small inputs for the self-test")
    ap.add_argument("--reference-dir", default=os.path.join(HERE, "reference"),
                    help="directory of default-seed reference reports")
    ap.add_argument("--record", action="store_true",
                    help="run one operation at the default seed and store its "
                         "report as the reference")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up (used to time set-up)")
    return ap.parse_args(argv)


def _import_program():
    """Import mwwdr from this checkout's src/, and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import mwwdr
        import mwwdr.cli  # noqa: F401
    except ImportError as exc:
        print(f"benchmark: cannot import mwwdr from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(mwwdr.__file__).startswith(src + os.sep):
        print(f"benchmark: mwwdr imported from {mwwdr.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)


def _out_dir(args, tag=""):
    path = os.path.join("perfbench", "out", f"{args.size}-{args.workload}{tag}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _setup_seconds(args):
    """Median wall time of fresh processes that start the interpreter,
    import mwwdr and generate the workload's inputs."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=60)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), samples


def _peak_rss_mb():
    """Largest resident set of this process or of any child it waited for."""
    import resource

    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def _reps_done(wl, res):
    """Replications one successful call completed, over all its scenarios;
    an estimate call fits one dataset."""
    if wl.command == "estimate":
        return 1
    return sum(b["n_reps_used"] for b in json.loads(res.report).values())


def _percentile_line(samples):
    """Median, plus the highest percentile with ten samples beyond it."""
    xs = sorted(samples)
    line = f"median {statistics.median(xs):.4f} s over {len(xs)} calls"
    if len(xs) >= 11:
        k = len(xs) - 11
        line += f"; p{100.0 * (k + 1) / len(xs):.0f} {xs[k]:.4f} s"
    return line


def main(argv=None):
    args = _parse(argv)
    os.chdir(ROOT)
    _import_program()
    wl = workloads.get(args.workload, args.size)
    if args.setup_only:
        wl.make_inputs(_out_dir(args, "-setup"), args.seed)
        return 0

    import envinfo
    import gate

    env = envinfo.describe(ROOT, args.seed, REMOVED_ENV)
    out_dir = _out_dir(args)
    dataset = wl.make_inputs(out_dir, args.seed)
    ref_path = os.path.join(args.reference_dir, args.size, f"{wl.name}.json")
    output = os.path.join(out_dir, "report.json")

    if args.record:
        if args.seed != DEFAULT_SEED:
            sys.exit(f"benchmark: references are recorded at seed {DEFAULT_SEED}")
        res = workloads.run_op(wl.argv(out_dir, args.seed, output), output)
        problems = ["operation failed: " + res.stderr] if res.rc else \
            gate.check_sanity(wl, json.loads(res.report), dataset)
        if problems:
            sys.exit("benchmark: not recorded: " + "; ".join(problems))
        os.makedirs(os.path.dirname(ref_path), exist_ok=True)
        with open(ref_path, "wb") as fh:
            fh.write(res.report)
        print(f"recorded {ref_path}")
        return 0

    reference_gate = args.seed == DEFAULT_SEED
    lines = [f"env {json.dumps(env, sort_keys=True)}"]
    if args.trace:
        import tracing

        results, metrics, problems, table = tracing.run(wl, args.seed, out_dir)
        lines += table
    else:
        results = []
        t0 = time.perf_counter()
        while not results or time.perf_counter() - t0 < args.seconds:
            results.append(workloads.run_op(wl.argv(out_dir, args.seed, output), output))
        peak = _peak_rss_mb()
        setup, setup_samples = _setup_seconds(args)
        ok = [r for r in results if r.rc == 0]
        call = [r.seconds for r in ok]
        rate = [_reps_done(wl, r) / r.seconds for r in ok]
        metrics = {
            "call_s": {"value": statistics.median(call) if ok else 0.0, "unit": "s"},
            "reps_per_s": {"value": statistics.median(rate) if ok else 0.0, "unit": "1/s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
            "setup_s": {"value": setup, "unit": "s"},
        }
        problems = []
        lines.append(f"call_s: {_percentile_line(call)}" if call else "call_s: no call succeeded")
        lines.append("setup_s samples: " + " ".join(f"{s:.4f}" for s in setup_samples))

    problems += gate.check_run(wl, results, ref_path if reference_gate else None,
                               dataset)
    attempted, failed, classes = gate.account(wl, results)
    lines.append(f"fail_frac {failed / attempted:.6f} ({failed} of {attempted}"
                 f" {'replications' if wl.command == 'simulate' else 'calls'})"
                 + (f"; by class: {dict(classes)}" if classes else ""))
    lines.append("reference gate: " + ("on" if reference_gate else
                                       f"off (references are for seed {DEFAULT_SEED})"))
    for p in problems:
        lines.append(f"MISMATCH {p}")
    for name, m in metrics.items():
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "result": result, "problems": problems,
                   "failure_classes": dict(classes),
                   "call_seconds": [r.seconds for r in results]}, fh, indent=2)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
