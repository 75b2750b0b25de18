"""Run the benchmark in alternating pairs on two commits and write the
runs, with their summary, to a JSON file at the repository root.

Each commit's committed files are exported with `git archive` into a
directory of their own under --scratch, and `perfbench/run.py --trace 0`
runs there, one workload at a time, the two commits taking turns at going
first. For each workload and each end-to-end metric that BENCHMARK.json
names, the file holds both commits' SHAs, every run's value, each side's
median and quartiles, the operations it attempted and those that failed,
the pairs the head commit won (ties count for neither side) and whether a
gain is shown: the head wins at least nine tenths of the pairs, the medians
differ by more than the base's interquartile range, and the head's share of
failed operations is no larger than the base's. Each metric also gets a
no-regression verdict against the bound BENCHMARK.json fixes for it, a
share of the base's median (see verdict). A run that exits non-zero,
prints no result line or fails the harness's correctness gate is no
sample: the tool stops with that run's standard error. It also holds every
run's environment record
(perfbench/envinfo.py) and, per commit, the set-up samples counted per
50 ms step: the harness times set-up through a polling wait that sleeps
up to 50 ms at a time, so those samples fall on steps.

    python tools/benchpairs.py BASE HEAD --workload estimate_n2000 \\
        --pairs 10 --scratch /tmp/benchpairs --out BENCH_21.json

The file is written again after every pair, so a run that is cut short
leaves the pairs it finished. Nothing under perfbench/ is changed; the
harness writes its own output under each exported tree.
"""

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STEP = 0.05  # s, the harness's longest polling sleep


def export(rev, scratch):
    """(SHA, directory) of rev's committed tree, exported under scratch."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", rev],
                         capture_output=True, text=True, check=True).stdout.strip()
    tree = scratch / sha[:12]
    if not tree.exists():
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
    return sha, tree


def run_once(tree, workload, seconds, seed):
    """One harness run: its metrics, correctness, set-up samples and
    environment, read from the run's standard output. Stops the tool where
    the run exited non-zero, printed no result line or was not correct."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--trace", "0", "--seed", str(seed)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) \
            or result.get("correct") is not True:
        verdict = "no result line" if not isinstance(result, dict) \
            else f"correct: {result.get('correct')}"
        raise SystemExit(f"{tree}: perfbench/run.py --workload {workload} exited "
                         f"{proc.returncode}, {verdict}:\n{proc.stderr}")
    setup = next((line.split(":", 1)[1].split() for line in lines
                  if line.startswith("setup_s samples:")), [])
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "setup_samples": [float(s) for s in setup],
            "env": env}


def side(samples, runs):
    """One commit's samples and quantiles, with the operations its runs
    attempted and those that failed."""
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive") \
        if len(samples) > 1 else samples * 3
    return {"samples": samples, "median": median, "q1": q1, "q3": q3,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs)}


def verdict(sb, sh, bound, lower):
    """The no-regression verdict on one metric from both sides' summaries:
    "worse than bound" where the head's median is worse than the base's by
    more than bound times the base's median; else "unresolved" where the
    base's interquartile range exceeds that share of its median and not
    every head run beats every base run; else "within bound"."""
    sign = 1 if lower else -1
    allowed = bound * abs(sb["median"])
    if sign * (sh["median"] - sb["median"]) > allowed:
        return "worse than bound"
    every_run_better = max(sh["samples"]) < min(sb["samples"]) if lower \
        else min(sh["samples"]) > max(sb["samples"])
    if sb["q3"] - sb["q1"] > allowed and not every_run_better:
        return "unresolved"
    return "within bound"


def summarize(runs, base, head, metrics):
    """Per metric: both sides' samples, quantiles and operations, the
    head's wins over the pairs both sides finished, whether a gain is
    shown, and the no-regression verdict."""
    pairs = {}
    for r in runs:
        pairs.setdefault(r["pair"], {})[r["commit"]] = r
    done = [p for p in pairs.values() if len(p) == 2]
    summary = {}
    for m in metrics if done else ():
        name, lower = m["name"], m["better"] == "lower"
        b = [p[base]["metrics"][name] for p in done]
        h = [p[head]["metrics"][name] for p in done]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, h))
        sb = side(b, [p[base] for p in done])
        sh = side(h, [p[head] for p in done])
        gain = (sb["median"] - sh["median"]) * (1 if lower else -1)
        # the head's failed share above the base's, without dividing by 0
        fails_more = sh["failed"] * sb["attempted"] > sb["failed"] * sh["attempted"]
        summary[name] = {
            "better": m["better"], "bound": m["bound"], "base": sb, "head": sh,
            "head_wins": wins, "pairs": len(done),
            "gain_shown": wins >= 0.9 * len(done) and gain > sb["q3"] - sb["q1"]
            and not fails_more,
            "verdict": verdict(sb, sh, m["bound"], lower)}
    steps = {}
    for r in runs:
        counts = steps.setdefault(r["commit"], {})
        for s in r["setup_samples"]:
            key = f"{math.floor(s / STEP) * STEP:.2f}"
            counts[key] = counts.get(key, 0) + 1
    return summary, {sha: dict(sorted(c.items())) for sha, c in steps.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the commit compared against")
    parser.add_argument("head", help="the commit whose gain is measured")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of perfbench/workloads.py (repeatable)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scratch", required=True, type=Path,
                        help="directory for the exported trees")
    parser.add_argument("--out", required=True,
                        help="file name of the JSON, at the repository root")
    opts = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    opts.scratch.mkdir(parents=True, exist_ok=True)
    (base, base_tree), (head, head_tree) = (export(r, opts.scratch)
                                           for r in (opts.base, opts.head))
    report = {"base": base, "head": head, "seconds": opts.seconds,
              "seed": opts.seed, "workloads": {}}
    for workload in opts.workload:
        runs = []
        for k in range(opts.pairs):
            order = [(base, base_tree), (head, head_tree)]
            for sha, tree in order if k % 2 == 0 else order[::-1]:
                runs.append({"pair": k, "commit": sha,
                             **run_once(tree, workload, opts.seconds, opts.seed)})
            summary, steps = summarize(runs, base, head, metrics)
            report["workloads"][workload] = {"metrics": summary,
                                             "setup_steps": steps, "runs": runs}
            (ROOT / opts.out).write_text(json.dumps(report, indent=1) + "\n")
            print(workload, f"pair {k + 1}/{opts.pairs}",
                  {name: (round(s["base"]["median"], 4), round(s["head"]["median"], 4),
                          s["head_wins"], s["verdict"]) for name, s in summary.items()},
                  flush=True)


if __name__ == "__main__":
    main()
