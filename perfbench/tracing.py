"""Traced run: per-layer numbers from spans around public calls into each module.

The traced run replays one operation by calling the program's public stages
on the same inputs and in the program's order, with a span around each call
(the replay). It then calls, on the replayed data, the stages a fit runs
inside ``solve_ugee`` (propensity MLE, outcome-model Newton, workspace plus
score, workspace plus sandwich, FD self-check), each in its own span (the
probes). Peak traced memory is taken in separate calls, so tracemalloc does
not slow any timed one. Spans stay in memory and are written out at the end.

Layers are the modules of ``mwwdr``: data, simstudy (with streams),
estimators, propensity, gpi, ugee and cli. ``special`` and ``errors`` have no
layer of their own; their cost sits inside gpi and ugee calls.
"""

import json
import os
import statistics
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

import envinfo
import gate
from workloads import W_COLS, run_op

FAMILIES = ("ipw", "msi", "dr")
REPLAY, PROBE = "replay", "probe"


class Tracer:
    """Spans (id, name, start, end, parent, op) and recorded values, in memory."""

    def __init__(self):
        self.spans = []
        self.values = []
        self.op = REPLAY
        self._stack = []

    @contextmanager
    def span(self, name, stage=False):
        """stage marks a call on the operation's own path, which counts
        toward trace.coverage."""
        rec = {"id": len(self.spans), "name": name, "op": self.op, "stage": stage,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter_ns(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter_ns()
            self._stack.pop()

    def record(self, name, value):
        self.values.append({"name": name, "op": self.op, "value": value})

    def seconds(self, name):
        return [(s["end"] - s["start"]) / 1e9 for s in self.spans if s["name"] == name]

    def attrs(self, name, key):
        return [s[key] for s in self.spans if s["name"] == name and s.get(key) is not None]

    def recorded(self, name):
        return [v["value"] for v in self.values if v["name"] == name]

    def stage_seconds(self):
        return sum((s["end"] - s["start"]) / 1e9 for s in self.spans
                   if s["stage"] and s["op"] == REPLAY)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans + self.values:
                fh.write(json.dumps(rec) + "\n")


def traced_peak_mb(fn):
    """Peak tracemalloc'd memory of one call, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# replay: the operation's own path


def _fit(tr, ds, spec, alpha):
    from mwwdr.ugee import solve_ugee, wald_test

    with tr.span(f"ugee.solve_ugee.{spec.family}", stage=True) as sp:
        fit = solve_ugee(ds, spec)
    sp["eta_iterations"] = fit.diagnostics.get("eta_iterations")
    sp["gamma_iterations"] = fit.diagnostics.get("gamma_iterations")
    with tr.span("ugee.wald_test", stage=True):
        wt = wald_test(fit, "delta", 0.5, alpha)
    return fit, wt


def replay_estimate(tr, wl, out_dir):
    """Mirror of ``mwwdr estimate --estimator all`` with the CLI defaults.
    Returns the op span, the dataset, {family: (spec, fit)} and the
    (delta, se) of every estimator."""
    from mwwdr.data import CsvSchema, load_csv
    from mwwdr.estimators import mww_estimate
    from mwwdr.propensity import DEFAULT_CLIP_EPS
    from mwwdr.ugee import FrmSpec

    fits, values = {}, {}
    with tr.span("op") as op:
        with tr.span("data.load_csv", stage=True):
            ds = load_csv(wl.input_path(out_dir), CsvSchema("z", "y", W_COLS),
                          outcome_kind="continuous")
        with tr.span("estimators.mww_estimate", stage=True):
            mww = mww_estimate(ds)
        values["mww"] = (mww.delta_hat, mww.se)
        for fam in FAMILIES:
            spec = FrmSpec(family=fam, link="probit", clip_eps=DEFAULT_CLIP_EPS)
            fit, wt = _fit(tr, ds, spec, 0.05)
            fits[fam] = (spec, fit)
            values[fam] = (fit.delta, wt.se)
    return op, ds, fits, values


def _draw(cfg, rep):
    """The program's draw-and-regenerate loop for one replication."""
    from mwwdr.simstudy import generate_dataset

    attempt = 0
    while True:
        _, ds = generate_dataset(cfg, rep, attempt)
        if 0 < ds.n1 < ds.n:
            return ds, attempt
        attempt += 1
        if attempt > 1000:
            raise RuntimeError(f"replication {rep} kept drawing single-arm samples")


def replay_simulate(tr, wl, seed):
    """Serial mirror of ``mwwdr simulate --preset``: every replication of
    every scenario, then each scenario's true-delta oracle. Returns the op
    span, per-scenario counts and estimator means, and the first
    probe_reps datasets of each scenario with their fits."""
    from mwwdr.estimators import mww_estimate
    from mwwdr.simstudy import true_delta
    from mwwdr.ugee import FrmSpec

    summary, kept = {}, []
    with tr.span("op") as op:
        for scen, cfg in wl.scenarios(seed):
            specs = {fam: FrmSpec(family=fam, link=cfg.link,
                                  intercept_only_propensity=cfg.misspecify_propensity,
                                  constant_only_gpi=cfg.misspecify_outcome,
                                  fd_check_pairs=cfg.fd_check_pairs)
                     for fam in cfg.estimators if fam != "mww"}
            deltas = {name: [] for name in cfg.estimators}
            failed = regenerated = 0
            for rep in range(cfg.reps):
                with tr.span("simstudy.replication"):
                    try:
                        with tr.span("simstudy.generate_dataset", stage=True):
                            ds, attempts = _draw(cfg, rep)
                        row, fits = {}, {}
                        for name in cfg.estimators:
                            if name == "mww":
                                with tr.span("estimators.mww_estimate", stage=True):
                                    row[name] = mww_estimate(ds).delta_hat
                            else:
                                fit, _ = _fit(tr, ds, specs[name], cfg.alpha)
                                row[name] = fit.delta
                                fits[name] = (specs[name], fit)
                    except Exception:  # the program counts and skips it too
                        failed += 1
                        continue
                regenerated += attempts
                for name, value in row.items():
                    deltas[name].append(value)
                if rep < wl.probe_reps:
                    kept.append((ds, fits))
            with tr.span("simstudy.true_delta", stage=True):
                true_delta(cfg)
            summary[scen] = {"n_failed": failed, "n_regenerated": regenerated,
                             "means": {k: float(np.array(v).mean())
                                       for k, v in deltas.items() if v}}
    return op, summary, kept


# ---------------------------------------------------------------------------
# probes: the stages inside solve_ugee, called one at a time


def probe(tr, ds, fits):
    from mwwdr.gpi import fit_gpi
    from mwwdr.propensity import fit_propensity
    from mwwdr.ugee import (check_residual_derivatives, sandwich_covariance,
                            solve_ugee, stacked_residual)

    specs = [spec for spec, _ in fits.values()]
    for only, eps in sorted({(s.intercept_only_propensity, s.clip_eps)
                             for s in specs if s.has_eta}):
        with tr.span("propensity.fit_propensity") as sp:
            sp["iterations"] = fit_propensity(ds, intercept_only=only,
                                              clip_eps=eps).iterations
    for const, link in sorted({(s.constant_only_gpi, s.link)
                               for s in specs if s.has_gamma}):
        with tr.span("gpi.fit_gpi") as sp:
            sp["iterations"] = fit_gpi(ds, constant_only=const, link=link).iterations
        tr.record("gpi.peak_mb", traced_peak_mb(
            lambda: fit_gpi(ds, constant_only=const, link=link)))
    for fam, (spec, fit) in fits.items():
        with tr.span(f"ugee.stacked_residual.{fam}"):
            stacked_residual(ds, fit.theta, spec)
        with tr.span(f"ugee.sandwich_covariance.{fam}"):
            sandwich_covariance(ds, fit.theta, spec)
        with tr.span(f"ugee.fd_check.{fam}"):
            if spec.fd_check_pairs > 0:
                check_residual_derivatives(ds, fit.theta, spec,
                                           n_pairs=spec.fd_check_pairs, seed=0)
        tr.record(f"ugee.solve_peak_mb.{fam}",
                  traced_peak_mb(lambda: solve_ugee(ds, spec)))


def probe_bypassed(tr, wl, seed, out_dir, ds):
    """Layers the operation does not call, timed on the workload's data so
    that each per-layer metric is measured on every workload: the CSV
    reader on a simulate workload (one replication's data), and the
    generator and true-delta oracle on the estimate workload (the input
    generator, and the oracle for the input's null effect)."""
    from mwwdr.data import CsvSchema, load_csv
    from mwwdr.simstudy import (ScenarioConfig, synthetic_confounded_trial,
                                true_delta, write_dataset_csv)

    if wl.command == "estimate":
        with tr.span("simstudy.generate_dataset"):
            synthetic_confounded_trial(n=wl.n, seed=seed)
        with tr.span("simstudy.true_delta"):
            true_delta(ScenarioConfig(n=wl.n, reps=1, seed=seed))
        return
    path = os.path.join(out_dir, "probe.csv")
    names = [f"w{k}" for k in range(1, ds.p + 1)]
    write_dataset_csv(ds, path, names)
    with tr.span("data.load_csv"):
        load_csv(path, CsvSchema("z", "y", tuple(names)))


# ---------------------------------------------------------------------------
# the traced run


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _mean(xs):
    return float(np.mean(xs)) if xs else 0.0


def _check_replay(wl, report, replay):
    """The replay must reproduce the operation's numbers, or it did not
    follow the program's path."""
    problems = []
    if wl.command == "estimate":
        for name, (delta, se) in replay.items():
            entry = report["estimates"][name]
            if not (gate.close(entry["delta"], delta) and gate.close(entry["se"], se)):
                problems.append(f"replay {name}: ({delta}, {se}) != report "
                                f"({entry['delta']}, {entry['se']})")
        return problems
    for scen, got in replay.items():
        block = report[scen]
        for key in ("n_failed", "n_regenerated"):
            if got[key] != block[key]:
                problems.append(f"replay {scen}.{key}: {got[key]} != {block[key]}")
        for name, mean in got["means"].items():
            if not gate.close(mean, block["estimators"][name]["mean"]):
                problems.append(f"replay {scen}.{name}.mean: {mean} != report")
    return problems


def run(wl, seed, out_dir):
    """Traced run of one workload. Returns (untraced op results, per-layer
    metrics, problems, stage-table lines)."""
    out = os.path.join(out_dir, "report.json")
    tr = Tracer()
    problems = []

    # The serial baseline is one worker for simulate and, for estimate, whose
    # only parallelism is BLAS, one OpenBLAS thread. The replay is compared
    # with the mean of the untraced calls just before and just after it
    # (serial ones for simulate, as the replay is serial), which cancels
    # slow drift in machine speed.
    argv = wl.argv(out_dir, seed, out)
    if wl.command == "estimate":
        results = [run_op(argv, out)]          # pays one-time costs
        threads = envinfo.blas_threads()
        envinfo.set_blas_threads(1)
        try:
            serial = run_op(argv, out)
        finally:
            envinfo.set_blas_threads(threads)
        if serial.rc != 0:
            problems.append(f"the one-BLAS-thread call failed: {serial.stderr}")
        elif results[0].rc == 0:
            # one BLAS thread changes the summation order, so this report is
            # compared at the gate's tolerance, not byte for byte
            problems += gate.check_reference("estimate", results[0].report,
                                             serial.report)
    else:
        results = [run_op(argv, out)]
        argv = wl.argv(out_dir, seed, out, threads=1)
    results.append(run_op(argv, out))
    if any(r.rc != 0 for r in results):
        return results, {}, problems + ["an untraced operation failed"], []

    if wl.command == "estimate":
        op, ds, fits, replay = replay_estimate(tr, wl, out_dir)
        kept = [(ds, fits)]
    else:
        op, replay, kept = replay_simulate(tr, wl, seed)
        ds = kept[0][0]
    traced = (op["end"] - op["start"]) / 1e9
    results.append(run_op(argv, out))
    if results[-1].rc != 0:
        return results, {}, problems + ["an untraced operation failed"], []
    untraced = (results[-2].seconds + results[-1].seconds) / 2.0
    if wl.command == "estimate":
        default_s, serial_s = untraced, serial.seconds
    else:
        default_s, serial_s = results[0].seconds, untraced
    report = json.loads(results[0].report)
    problems += _check_replay(wl, report, replay)

    tr.op = PROBE
    for kds, kfits in kept:
        probe(tr, kds, kfits)
    probe_bypassed(tr, wl, seed, out_dir, ds)
    tr.write(os.path.join(out_dir, "spans.jsonl"))

    if wl.command == "estimate":
        n_failed = n_regen = 0
        true_delta_s = _median(tr.seconds("simstudy.true_delta"))
    else:
        n_failed = sum(b["n_failed"] for b in report.values())
        n_regen = sum(b["n_regenerated"] for b in report.values())
        true_delta_s = sum(tr.seconds("simstudy.true_delta"))

    m = {
        "cli.main_s": (default_s, "s"),
        "data.load_csv_s": (_median(tr.seconds("data.load_csv")), "s"),
        "simstudy.generate_dataset_s": (_median(tr.seconds("simstudy.generate_dataset")), "s"),
        "estimators.mww_estimate_s": (_median(tr.seconds("estimators.mww_estimate")), "s"),
        "propensity.fit_propensity_s": (_median(tr.seconds("propensity.fit_propensity")), "s"),
        "propensity.iterations": (_mean(tr.attrs("propensity.fit_propensity", "iterations")), "count"),
        "gpi.fit_gpi_s": (_median(tr.seconds("gpi.fit_gpi")), "s"),
        "gpi.iterations": (_mean(tr.attrs("gpi.fit_gpi", "iterations")), "count"),
        "gpi.peak_mb": (max(tr.recorded("gpi.peak_mb"), default=0.0), "MB"),
    }
    for fam in FAMILIES:
        m[f"ugee.solve_ugee_s.{fam}"] = (_median(tr.seconds(f"ugee.solve_ugee.{fam}")), "s")
        m[f"ugee.solve_peak_mb.{fam}"] = (max(tr.recorded(f"ugee.solve_peak_mb.{fam}"), default=0.0), "MB")
        m[f"ugee.sandwich_covariance_s.{fam}"] = (_median(tr.seconds(f"ugee.sandwich_covariance.{fam}")), "s")
        m[f"ugee.stacked_residual_s.{fam}"] = (_median(tr.seconds(f"ugee.stacked_residual.{fam}")), "s")
        m[f"ugee.fd_check_s.{fam}"] = (_median(tr.seconds(f"ugee.fd_check.{fam}")), "s")
    solves = [f"ugee.solve_ugee.{fam}" for fam in FAMILIES]
    m["ugee.eta_iterations"] = (_mean([x for s in solves for x in tr.attrs(s, "eta_iterations")]), "count")
    m["ugee.gamma_iterations"] = (_mean([x for s in solves for x in tr.attrs(s, "gamma_iterations")]), "count")
    m["simstudy.true_delta_s"] = (true_delta_s, "s")
    m["simstudy.parallel_efficiency"] = (serial_s / (2.0 * default_s), "ratio")
    m["simstudy.n_failed"] = (n_failed, "count")
    m["simstudy.n_regenerated"] = (n_regen, "count")
    m["trace.coverage"] = (tr.stage_seconds() / untraced, "ratio")
    m["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
    return results, metrics, problems, stage_table(wl, tr, m)


def stage_table(wl, tr, m):
    """One row in the columns of the ROADMAP baseline table, in ms per call.

    Departures from that table: "eta MLE" is the propensity MLE alone (the
    pairwise eta Newton is private to solve_ugee and is inside "DR solve");
    "ws+score" and "ws+sandwich" each include one workspace build, which the
    public calls cannot separate.
    """
    rep = tr.seconds("simstudy.replication") if wl.command == "simulate" else \
        [(s["end"] - s["start"]) / 1e9 for s in tr.spans if s["name"] == "op"]
    cols = [("replication", _median(rep)),
            ("DR solve", m["ugee.solve_ugee_s.dr"][0]),
            ("eta MLE", m["propensity.fit_propensity_s"][0]),
            ("GPI Newton", m["gpi.fit_gpi_s"][0]),
            ("ws+score", m["ugee.stacked_residual_s.dr"][0]),
            ("ws+sandwich", m["ugee.sandwich_covariance_s.dr"][0]),
            ("FD check", m["ugee.fd_check_s.dr"][0])]
    head = f"{'workload':<18}" + "".join(f"{c:>13}" for c, _ in cols) + f"{'coverage':>10}"
    row = f"{wl.name:<18}" + "".join(f"{v * 1e3:>13.2f}" for _, v in cols) \
        + f"{m['trace.coverage'][0]:>10.3f}"
    return ["per-stage ms per call (median)", head, row]
