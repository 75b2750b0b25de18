"""Correctness gate and failure accounting for benchmark operations.

Three checks, any of which fails the run:

* reference: at the default seed, each report's estimates, SEs and summaries
  match the stored reference report to TOL (solver diagnostics, the echoed
  scenario config and failure text are not compared, so a change that only
  alters iteration counts or adds diagnostics still passes);
* determinism: reports within a run are byte-identical;
* sanity: at every seed, estimates lie in [0, 1] with positive finite SEs,
  replication counts add up, and the rank-sum estimate equals an independent
  sort-based count.
"""

import json
import math
import re
from collections import Counter

import numpy as np

TOL = 1e-9
MAX_PROBLEMS = 20


def gated_view(command, report):
    """The parts of a report the reference gate compares."""
    if command == "estimate":
        view = {"data": report["data"], "alpha": report["alpha"], "estimates": {}}
        for name, entry in report["estimates"].items():
            entry = dict(entry)
            if "fit" in entry:
                entry["fit"] = {k: v for k, v in entry["fit"].items()
                                if k != "diagnostics"}
            view["estimates"][name] = entry
        return view
    return {scen: {k: v for k, v in block.items() if k not in ("config", "failures")}
            for scen, block in report.items()}


def close(a, b):
    """Equal to the gate's tolerance: relative, or absolute below 1."""
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def compare(ref, out, path, problems):
    """Append to problems every place where out departs from ref; keys that
    out adds are allowed."""
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            problems.append(f"{path}: expected an object")
            return
        for key, val in ref.items():
            if key not in out:
                problems.append(f"{path}.{key}: missing")
            else:
                compare(val, out[key], f"{path}.{key}", problems)
    elif isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            problems.append(f"{path}: expected a list of {len(ref)}")
            return
        for k, (a, b) in enumerate(zip(ref, out)):
            compare(a, b, f"{path}[{k}]", problems)
    elif isinstance(ref, bool) or ref is None or isinstance(ref, str):
        if out != ref:
            problems.append(f"{path}: {out!r} != reference {ref!r}")
    elif isinstance(out, bool) or not isinstance(out, (int, float)):
        problems.append(f"{path}: {out!r} is not a number")
    elif not (close(ref, out) or (math.isnan(ref) and math.isnan(out))):
        problems.append(f"{path}: {out!r} != reference {ref!r}")


def check_reference(command, ref_bytes, report_bytes):
    problems = []
    compare(gated_view(command, json.loads(ref_bytes)),
            gated_view(command, json.loads(report_bytes)), "report", problems)
    return problems[:MAX_PROBLEMS]


def _unit_interval(x):
    return isinstance(x, (int, float)) and math.isfinite(x) and 0.0 <= x <= 1.0


def _positive(x):
    return isinstance(x, (int, float)) and math.isfinite(x) and x > 0.0


def mww_oracle(dataset):
    """P(y_treated <= y_control) over observed pairs, by sorting."""
    yt = dataset.y[dataset.z == 1]
    yc = np.sort(dataset.y[dataset.z == 0])
    at_least = len(yc) - np.searchsorted(yc, yt, side="left")
    return float(at_least.sum()) / (len(yt) * len(yc))


def check_sanity(workload, report, dataset=None):
    problems = []
    if workload.command == "estimate":
        for name, entry in report["estimates"].items():
            if not _unit_interval(entry["delta"]):
                problems.append(f"{name}: delta {entry['delta']!r} outside [0, 1]")
            if not _positive(entry["se"]):
                problems.append(f"{name}: se {entry['se']!r} not positive")
        if dataset is not None:
            want = mww_oracle(dataset)
            got = report["estimates"]["mww"]["delta"]
            if abs(got - want) > 1e-12:
                problems.append(f"mww: delta {got!r} != sort-based count {want!r}")
        return problems
    for scen, block in report.items():
        reps = block["config"]["reps"]
        if block["n_reps_used"] + block["n_failed"] != reps:
            problems.append(f"{scen}: used + failed != {reps} replications")
        for name, est in block["estimators"].items():
            if not _unit_interval(est["mean"]):
                problems.append(f"{scen}.{name}: mean {est['mean']!r} outside [0, 1]")
            if not _positive(est["ase"]):
                problems.append(f"{scen}.{name}: ase {est['ase']!r} not positive")
            if not _unit_interval(est["rejection_rate"]):
                problems.append(f"{scen}.{name}: rejection rate out of range")
    return problems


def check_run(workload, results, ref_path, dataset):
    """Problems over the reports of one run; ref_path None skips the
    reference comparison."""
    reports = [r.report for r in results if r.rc == 0]
    if not reports:
        return ["no operation succeeded"]
    problems = check_sanity(workload, json.loads(reports[0]), dataset)
    if any(r != reports[0] for r in reports[1:]):
        problems.append("reports within the run are not byte-identical")
    if ref_path is not None:
        with open(ref_path, "rb") as fh:
            problems += check_reference(workload.command, fh.read(), reports[0])
    return problems


# ---------------------------------------------------------------------------
# failure accounting

_REP_FAILURE = re.compile(r"rep \d+: ([A-Za-z_]\w*)")
_CLI_ERROR = re.compile(r"error \(([\w ]+)\)")


def classify_error(stderr):
    """Exception class of a failed call, from the CLI's error line."""
    first = _REP_FAILURE.search(stderr)     # an aborted study names its first failure
    if first:
        return f"study aborted, first {first.group(1)}"
    m = _CLI_ERROR.search(stderr)
    return m.group(1) if m else (stderr.strip().splitlines() or ["unknown"])[-1][:80]


def account(workload, results):
    """(attempted, failed, Counter of failure classes) over operations.

    For simulate, the unit is the replication: a study's n_failed
    replications fail, and a call that exits non-zero fails all of its
    replications. The report lists at most 20 failure strings; failures it
    does not list are counted as unlisted.
    """
    per_call = workload.reps_per_call()
    attempted = failed = 0
    classes = Counter()
    for res in results:
        attempted += per_call
        if res.rc != 0:
            failed += per_call
            classes[classify_error(res.stderr)] += per_call
            continue
        if workload.command != "simulate":
            continue
        for block in json.loads(res.report).values():
            failed += block["n_failed"]
            listed = [_REP_FAILURE.match(f) for f in block["failures"]]
            for m in listed:
                classes[m.group(1) if m else "unparsed"] += 1
            if block["n_failed"] > len(listed):
                classes["unlisted"] += block["n_failed"] - len(listed)
    return attempted, failed, classes
